//! Per-layer probes of the traced run.
//!
//! After a round's timed phases, the traced run calls each layer's public
//! functions once more on the blocks the round just produced — on twin
//! worlds, a scratch mempool and a scratch WAL, never on the round's own
//! nodes — and records a span and a sample per call. These are calls the
//! end-to-end run never makes; they say what each layer costs on this
//! workload's blocks, so that `node.unattributed_share` can say how much
//! of a `Node` call no probed layer explains.

use crate::round::{micros, Harness, Recorder};
use crate::trace::NO_BLOCK;
use crate::workloads::Inputs;
use cc_core::fork_join::run_fork_join;
use cc_core::{HappensBeforeGraph, MinerStats, PendingChain, ValidationReport};
use cc_ledger::wal::{self, Wal};
use cc_ledger::{Block, SnapshotFile};
use cc_mempool::{Mempool, MempoolConfig};
use cc_stm::LockProfile;
use std::path::Path;
use std::time::Duration;

/// What a finished round shows the probes.
pub struct RoundView<'a> {
    /// The round's inputs (for twin worlds and the scratch mempool).
    pub inputs: &'a Inputs,
    /// The produced chain without its genesis block.
    pub blocks: &'a [Block],
    /// Per-block miner statistics; empty on pipelined workloads.
    pub miner_stats: &'a [MinerStats],
    /// Per-block validation reports; empty on pipelined workloads.
    pub reports: &'a [ValidationReport],
    /// Wall time of the produce phase.
    pub produce: Duration,
    /// Wall time of the follow phase.
    pub follow: Duration,
    /// `PipelineReport::stalled` (zero on sequential workloads).
    pub pipeline_stalled: Duration,
    /// `FollowerReport::stalled` (zero on sequential workloads).
    pub follower_stalled: Duration,
    /// WAL bytes the producer logged, and the transactions they cover.
    pub wal_logged: (u64, usize),
    /// The round's scratch directory.
    pub scratch: &'a Path,
}

/// Runs every probe over the round's blocks and records the per-round
/// ratios.
pub fn run(harness: &Harness, view: &RoundView<'_>, rec: &mut Recorder) -> Result<(), String> {
    let def = harness.def;
    let threads = harness.engine.threads();
    let txns: usize = view.blocks.iter().map(Block::len).sum();
    if view.blocks.is_empty() {
        return Ok(());
    }
    let err = |what: &str, e: &dyn std::fmt::Display| format!("probe {what} failed: {e}");

    // mempool: the same arrivals into a scratch pool, drained block by block.
    let pool = Mempool::new(MempoolConfig {
        capacity: 8 * view.inputs.txns.len().max(1024),
        shards: 8,
    });
    for tx in view.inputs.txns.iter().cloned() {
        pool.submit(tx).map_err(|e| err("mempool.submit", &e))?;
    }
    for block in 1..=view.blocks.len() as u32 {
        rec.timed(
            "mempool.build_block",
            "mempool.build_block_us",
            block,
            || pool.build_block(def.block_gas()),
        );
    }

    // The Node calls of a pipelined workload return no per-block
    // statistics, so the same engine mines and validates the same
    // batches on twins.
    let (twin_stats, twin_reports);
    let (miner_stats, reports) = if def.pipelined {
        let mine_world = view.inputs.build_world();
        let validate_world = view.inputs.build_world();
        let mut stats = Vec::new();
        let mut validations = Vec::new();
        for block in view.blocks {
            let mined = harness
                .engine
                .mine_on(
                    &mine_world,
                    block.transactions.clone(),
                    block.header.parent_hash,
                    block.header.number,
                )
                .map_err(|e| err("twin mine", &e))?;
            stats.push(mined.stats);
            validations.push(
                harness
                    .engine
                    .validate(&validate_world, block)
                    .map_err(|e| err("twin validate", &e))?,
            );
        }
        twin_stats = stats;
        twin_reports = validations;
        (&twin_stats[..], &twin_reports[..])
    } else {
        (view.miner_stats, view.reports)
    };

    // vm: the serial engine mines the same batches and validates the same
    // blocks on twins; the validating twin follows the real chain, so its
    // state root after block k is the root the node computed.
    let serial_mine_world = view.inputs.build_world();
    let chain_world = view.inputs.build_world();
    let pending_world = view.inputs.build_world();
    let genesis_hash = view.blocks[0].header.parent_hash;
    let mut pending = PendingChain::new(&pending_world, genesis_hash, 2);
    let probe_wal = if def.durable() {
        std::fs::create_dir_all(view.scratch).map_err(|e| err("scratch dir", &e))?;
        Some(
            Wal::create(view.scratch.join("probe-wal.log"), def.durability)
                .map_err(|e| err("scratch WAL", &e))?,
        )
    } else {
        None
    };

    let mut serial_mine = Duration::ZERO;
    let mut serial_validate = Duration::ZERO;
    for (i, block) in view.blocks.iter().enumerate() {
        let number = i as u32 + 1;
        let n = block.len().max(1) as f64;

        let span = rec.tracer.enter("vm.serial_mine", number);
        let mined = harness.serial.mine_on(
            &serial_mine_world,
            block.transactions.clone(),
            block.header.parent_hash,
            block.header.number,
        );
        rec.tracer.exit(span);
        let mined = mined.map_err(|e| err("serial mine", &e))?;
        serial_mine += mined.stats.elapsed;
        rec.sample("vm.serial_exec_us_per_txn", micros(mined.stats.elapsed) / n);

        let span = rec.tracer.enter("vm.serial_validate", number);
        let report = harness.serial.validate(&chain_world, block);
        rec.tracer.exit(span);
        serial_validate += report.map_err(|e| err("serial validate", &e))?.elapsed;

        rec.timed("vm.state_root", "vm.state_root_us", number, || {
            chain_world.state_root()
        });

        // schedule: rebuild the graph and its metadata from the published
        // profiles, then run the fork-join executor over it with no work.
        if let Some(schedule) = &block.schedule {
            let profiles: Vec<LockProfile> = schedule
                .profiles
                .iter()
                .map(|r| r.profile.clone())
                .collect();
            let graph = rec
                .timed("schedule.build", "schedule.build_us", number, || {
                    let graph = HappensBeforeGraph::from_profiles(&profiles);
                    graph.to_metadata(&profiles).map(|_| graph)
                })
                .map_err(|e| err("schedule.build", &e))?;
            rec.timed("fork_join.handoff", "fork_join.handoff_us", number, || {
                run_fork_join(&graph, threads, |_| {})
            });
            rec.sample("schedule.edges", schedule.edges.len() as f64);
            rec.sample("schedule.critical_path", schedule.critical_path() as f64);
            rec.sample("schedule.metadata_bytes", schedule.encoded_size() as f64);
        }

        // pending: speculate and commit through the overlay chain.
        let hash = rec
            .timed("pending.speculate", "pending.speculate_us", number, || {
                pending.speculate(pending.tip_hash(), block)
            })
            .map_err(|e| err("pending.speculate", &e))?;
        rec.timed("pending.commit", "pending.commit_us", number, || {
            pending.commit(&hash)
        })
        .map_err(|e| err("pending.commit", &e))?;

        // ledger: encode, seal on a scratch WAL in the workload's mode,
        // snapshot where the node would.
        let bytes = rec.timed("ledger.encode", "ledger.encode_us", number, || {
            block.to_checked_bytes()
        });
        rec.sample("ledger.block_bytes", bytes.len() as f64);
        if let Some(probe_wal) = &probe_wal {
            rec.timed("ledger.seal", "ledger.seal_us", number, || {
                probe_wal.seal_block(block)
            })
            .map_err(|e| err("ledger.seal", &e))?;

            if block.header.number.is_multiple_of(def.snapshot_interval) {
                let world_bytes = rec.timed("vm.snapshot", "vm.snapshot_us", number, || {
                    chain_world.snapshot().to_bytes()
                });
                let snapshot = SnapshotFile {
                    height: block.header.number,
                    block_hash: block.hash(),
                    state_root: block.header.state_root,
                    blocks: view.blocks[..=i].to_vec(),
                    world_bytes,
                };
                let path = rec
                    .timed(
                        "ledger.snapshot_write",
                        "ledger.snapshot_write_us",
                        number,
                        || snapshot.write_to(view.scratch),
                    )
                    .map_err(|e| err("ledger.snapshot_write", &e))?;
                let written = std::fs::metadata(&path).map_err(|e| err("snapshot size", &e))?;
                rec.sample("ledger.snapshot_bytes", written.len() as f64);
            }
        }
    }
    if let Some(probe_wal) = &probe_wal {
        rec.timed("ledger.scan", "ledger.scan_us", NO_BLOCK, || {
            wal::scan(probe_wal.path())
        })
        .map_err(|e| err("ledger.scan", &e))?;
    }

    // miner / stm / validator: what the engine itself reported.
    let mut mine_elapsed = Duration::ZERO;
    let mut retries = 0u64;
    for stats in miner_stats {
        let n = stats.transactions.max(1) as f64;
        mine_elapsed += stats.elapsed;
        retries += stats.retries;
        rec.sample("miner.exec_us_per_txn", micros(stats.elapsed) / n);
        rec.sample("miner.retries_per_block", stats.retries as f64);
        rec.sample("miner.read_only_per_block", stats.read_only as f64);
        rec.sample(
            "stm.acquisitions_per_txn",
            stats.locks.acquisitions as f64 / n,
        );
        rec.sample("stm.waits_per_block", stats.locks.waits as f64);
        rec.sample("stm.deadlocks_per_block", stats.locks.deadlocks as f64);
    }
    let mut validate_elapsed = Duration::ZERO;
    for report in reports {
        validate_elapsed += report.elapsed;
        rec.sample(
            "validator.exec_us_per_txn",
            micros(report.elapsed) / report.transactions.max(1) as f64,
        );
    }
    rec.sample(
        "miner.useful_ratio",
        txns as f64 / (txns as u64 + retries) as f64,
    );
    rec.sample("miner.speedup_vs_serial", ratio(serial_mine, mine_elapsed));
    rec.sample(
        "validator.speedup_vs_serial",
        ratio(serial_validate, validate_elapsed),
    );

    // node: per-block cost of the Node calls, what was left exposed of the
    // overlapped seals, and the share of the producer's Node time that no
    // probed layer accounts for.
    let blocks = view.blocks.len() as f64;
    let node_produce_us = node_span_us(rec, &["node.mine_pending", "node.run_pipeline"]);
    let node_follow_us = node_span_us(rec, &["node.validate_append", "node.run_follower_pipeline"]);
    rec.sample("node.mine_pending_us", node_produce_us / blocks);
    rec.sample("node.validate_append_us", node_follow_us / blocks);
    rec.sample(
        "node.pipeline_stalled_share",
        ratio(view.pipeline_stalled, view.produce),
    );
    rec.sample(
        "node.follower_stalled_share",
        ratio(view.follower_stalled, view.follow),
    );
    // A pipelined producer pays for a seal only while it is stalled on it.
    let persist_us = if def.pipelined {
        micros(view.pipeline_stalled)
    } else {
        rec.round_sum("ledger.seal_us")
            + rec.round_sum("vm.snapshot_us")
            + rec.round_sum("ledger.snapshot_write_us")
    };
    let attributed_us = rec.round_sum("mempool.build_block_us")
        + micros(mine_elapsed)
        + rec.round_sum("vm.state_root_us")
        + persist_us;
    rec.sample(
        "node.unattributed_share",
        1.0 - attributed_us / node_produce_us,
    );
    let (wal_bytes, wal_txns) = view.wal_logged;
    rec.sample(
        "ledger.wal_bytes_per_txn",
        wal_bytes as f64 / wal_txns.max(1) as f64,
    );
    Ok(())
}

fn ratio(numerator: Duration, denominator: Duration) -> f64 {
    if denominator.is_zero() {
        0.0
    } else {
        numerator.as_secs_f64() / denominator.as_secs_f64()
    }
}

/// Total duration (µs) of the current round's spans named any of `names`.
fn node_span_us(rec: &Recorder, names: &[&str]) -> f64 {
    let spans = rec.tracer.spans();
    let round = spans.last().map_or(0, |s| s.round);
    spans
        .iter()
        .rev()
        .take_while(|s| s.round == round)
        .filter(|s| names.contains(&s.name))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .sum()
}

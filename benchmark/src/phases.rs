//! The two extra phases of `small.counter.fsync`: the crash-cut
//! durability check and the open-loop commit-latency phase.

use crate::openloop::{LatencyLog, Schedule};
use crate::round::Harness;
use crate::workloads::{counter_transactions, Inputs};
use cc_core::node::Node;
use cc_ledger::wal::WAL_FILE;
use cc_ledger::{faultsim, Transaction};
use cc_vm::Address;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Acknowledged writes survive losing everything unsynced.
///
/// Mines the workload's transactions block by block on a fresh durable
/// node, notes the WAL length and state root once block `k`'s
/// `mine_pending` has returned (its acknowledgement), keeps mining, then
/// drops the node, cuts the WAL back to the noted length — a crash that
/// lost every byte written after the acknowledgement — and requires
/// `Node::recover` to return at least `k` blocks with block `k`'s root.
pub fn crash_cut_check(harness: &Harness, seed: u64, dir: &Path) -> Result<(), String> {
    let def = harness.def;
    let inputs = Inputs::generate(def, seed);
    let k = (def.blocks_per_round() / 2).max(1) as u64;
    let mut node = harness.node(inputs.build_world(), dir)?;
    for tx in inputs.txns.iter().cloned() {
        node.submit(tx)
            .map_err(|e| format!("crash-cut submit: {e}"))?;
    }
    let mut acked = None;
    while !node.mempool().is_empty() {
        let mined = node
            .mine_pending(def.block_gas())
            .map_err(|e| format!("crash-cut mine: {e}"))?;
        if mined.block.header.number == k {
            let wal = node.wal().ok_or("crash-cut needs a durable workload")?;
            acked = Some((wal.written_len(), mined.block.header.state_root));
        }
    }
    let (acked_len, acked_root) = acked.ok_or("crash-cut round mined too few blocks")?;
    drop(node);
    faultsim::kill_at(&dir.join(WAL_FILE), acked_len).map_err(|e| format!("kill_at: {e}"))?;

    let recovered = Node::recover(
        harness.durability(dir),
        inputs.build_world(),
        harness.engine.clone(),
    )
    .map_err(|e| format!("recovery after the crash cut failed: {e}"))?;
    let survived = recovered.chain().len() as u64 - 1;
    if survived < k {
        return Err(format!(
            "block {k} was acknowledged but only {survived} blocks survived the cut"
        ));
    }
    match recovered.chain().block(k) {
        Some(block) if block.header.state_root == acked_root => Ok(()),
        _ => Err(format!(
            "recovered block {k} does not carry the acknowledged root"
        )),
    }
}

/// Offered rate of the latency phase, transactions per second: about
/// 40% of the closed-loop saturation this workload reaches on a 2-core
/// host (~10 000 txn/s).
pub const LATENCY_RATE_PER_S: f64 = 4000.0;
/// Arrivals of one latency phase (1.5 s at the offered rate). With 6000
/// samples the highest percentile with ten samples beyond it is p99.
pub const LATENCY_ARRIVALS: usize = 6000;

/// What the open-loop phase measured.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Per-arrival timestamps.
    pub log: LatencyLog,
    /// Pool depth when the last arrival had been admitted.
    pub final_pool_depth: usize,
    /// Arrivals offered.
    pub attempted: u64,
    /// Rejected arrivals, plus every unfinished one when the phase ended
    /// overloaded (final depth above one block's worth).
    pub failed: u64,
}

/// The open-loop phase: arrivals are due at a fixed rate from the driver
/// thread; each turn admits every arrival that is due, then calls
/// `mine_pending` once. Latency runs from an arrival's due time to the
/// return of the `mine_pending` that made it durable.
pub fn latency_phase(harness: &Harness, seed: u64, dir: &Path) -> Result<LatencyResult, String> {
    let def = harness.def;
    let senders = 16u64;
    let arrivals: Vec<Transaction> =
        counter_transactions(senders, LATENCY_ARRIVALS as u64 / senders, seed);
    let index: HashMap<(Address, u64), usize> = arrivals
        .iter()
        .enumerate()
        .map(|(i, tx)| ((tx.sender, tx.nonce), i))
        .collect();
    let schedule = Schedule {
        rate_per_s: LATENCY_RATE_PER_S,
        count: arrivals.len(),
    };
    let mut log = LatencyLog::new(&schedule);
    let mut node = harness.node(Inputs::generate(def, seed).build_world(), dir)?;

    let mut admitted = 0usize;
    let mut rejected = 0u64;
    let mut final_pool_depth = None;
    let mut feed = arrivals.into_iter();
    let start = Instant::now();
    let now_ns = |start: &Instant| start.elapsed().as_nanos() as u64;
    loop {
        for _ in 0..schedule.due_by(now_ns(&start), admitted) {
            let tx = feed.next().expect("schedule counts the arrivals");
            if node.submit(tx).is_err() {
                rejected += 1;
            }
            log.admit(admitted, now_ns(&start));
            admitted += 1;
        }
        if admitted == schedule.count && final_pool_depth.is_none() {
            final_pool_depth = Some(node.mempool().len());
        }
        if node.mempool().is_empty() {
            if admitted == schedule.count {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        let mined = node
            .mine_pending(def.block_gas())
            .map_err(|e| format!("latency phase mine: {e}"))?;
        let done = now_ns(&start);
        for tx in &mined.block.transactions {
            log.complete(index[&(tx.sender, tx.nonce)], done);
        }
        if mined.block.is_empty() {
            break;
        }
    }
    let final_pool_depth = final_pool_depth.unwrap_or(0);
    // A backlog above one block when the arrivals stop means the system
    // was not keeping up: the queue was growing, not draining.
    let overloaded = final_pool_depth > def.block_txns;
    let unfinished = if overloaded {
        final_pool_depth as u64
    } else {
        log.unfinished() as u64
    };
    Ok(LatencyResult {
        log,
        final_pool_depth,
        attempted: schedule.count as u64,
        failed: rejected + unfinished,
    })
}

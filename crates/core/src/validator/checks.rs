//! What every row of the replay table ([`super::replay`]) shares
//! besides the replay itself: the structural prologue, the verdict over
//! receipts and the schedule-integrity checks — replayed lock traces
//! against published profiles, and the hidden-data-race test over the
//! happens-before graph — and the state-root reason `PendingChain::commit`
//! gives once the overlay is flattened.

use super::replay::Trace;
use crate::error::CoreError;
use crate::schedule::HappensBeforeGraph;
use cc_ledger::{Block, ScheduleMetadata};
use cc_primitives::fx::FxHashMap;
use cc_primitives::hash::Hash256;
use cc_stm::{LockId, LockMode};
use cc_vm::Receipt;

/// The structural prologue: the header's commitments must match the
/// body before anything is replayed.
pub(crate) fn well_formed(block: &Block) -> Result<(), CoreError> {
    if block.is_well_formed() {
        return Ok(());
    }
    Err(CoreError::rejected(
        "block commitments do not match its body",
    ))
}

/// The state-root reason: set when the root a replay produced is not the
/// one `block` commits to.
pub(crate) fn state_root_mismatch(block: &Block, replayed: Hash256) -> Option<String> {
    (replayed != block.header.state_root).then(|| {
        format!(
            "state root mismatch: block commits to {}, replay produced {}",
            block.header.state_root, replayed
        )
    })
}

/// The verdict over one replay of `block`, every check in one place:
///
/// * when the validator checks traces (`published` is the block's
///   schedule and its graph), the replayed lock `traces` must match the
///   published profiles and hide no data race ([`trace_check_reasons`]),
/// * the `replayed` receipts must equal the block's.
///
/// The state root is not here: it exists only once the overlay the
/// replay left is flattened (see [`state_root_mismatch`]).
///
/// # Errors
///
/// [`CoreError::BlockRejected`] carrying every reason, if there is one.
pub(crate) fn verdict(
    block: &Block,
    published: Option<(&ScheduleMetadata, &HappensBeforeGraph)>,
    traces: &[Trace],
    replayed: &[Receipt],
) -> Result<(), CoreError> {
    let mut reasons = published.map_or_else(Vec::new, |(schedule, graph)| {
        trace_check_reasons(schedule, graph, traces)
    });
    reasons.extend(receipt_mismatches(&block.receipts, replayed));
    if reasons.is_empty() {
        return Ok(());
    }
    Err(CoreError::BlockRejected { reasons })
}

/// Compares replayed receipts against the block's receipts. Returns
/// human-readable reasons for every mismatch.
fn receipt_mismatches(expected: &[Receipt], actual: &[Receipt]) -> Vec<String> {
    if expected.len() != actual.len() {
        return vec![format!(
            "receipt count mismatch: block has {}, replay produced {}",
            expected.len(),
            actual.len()
        )];
    }
    let mut reasons = Vec::new();
    for (i, (e, a)) in expected.iter().zip(actual.iter()).enumerate() {
        if e != a {
            reasons.push(format!("receipt {i} differs between block and replay"));
        }
    }
    reasons
}

/// Checks the lock traces a replay recorded (one [`Trace`] per
/// transaction, in block order) against the published schedule:
///
/// 1. every trace must equal the lock profile the miner published for
///    that transaction,
/// 2. every pair of transactions whose traces conflict must be ordered by
///    the published happens-before graph (no hidden data race).
///
/// Returns a human-readable reason per violation; empty means the traces
/// are consistent with the schedule.
fn trace_check_reasons(
    schedule: &ScheduleMetadata,
    graph: &HappensBeforeGraph,
    traces: &[Trace],
) -> Vec<String> {
    let mut reasons = Vec::new();

    // (1) Traces must match the published profiles.
    for (index, trace) in traces.iter().enumerate() {
        let published = schedule
            .profiles
            .iter()
            .find(|p| p.tx_index == index)
            .map(|p| p.profile.lock_set());
        match published {
            Some(profile) if &profile == trace => {}
            Some(_) => reasons.push(format!(
                "transaction {index}: replayed lock trace differs from the published profile"
            )),
            None => reasons.push(format!("transaction {index}: no lock profile published")),
        }
    }

    // (2) No hidden data races: conflicting transactions must be
    // ordered by the published graph. Mirroring the reduced
    // construction, each lock's holders are sorted by their serial
    // position and grouped into maximal runs of mutually-commuting
    // modes; only cross pairs of *consecutive* runs need a
    // reachability query. That is equivalent to checking every
    // conflicting pair — ordering between consecutive runs
    // composes transitively, and the published serial order
    // respects every edge (enforced by `from_metadata`), so an
    // ordered pair is always reachable in serial-order direction —
    // but costs O(run boundaries) instead of O(h²) per hot lock.
    let reachability = graph.reachability();
    let mut position = vec![0usize; traces.len()];
    for (pos, &tx) in schedule.serial_order.iter().enumerate() {
        position[tx] = pos;
    }
    let mut by_lock: FxHashMap<LockId, Vec<(usize, LockMode)>> = FxHashMap::default();
    for (index, trace) in traces.iter().enumerate() {
        for (&lock, &mode) in trace {
            by_lock.entry(lock).or_default().push((index, mode));
        }
    }
    // Deterministic rejection messages regardless of hash order.
    let mut locks: Vec<(LockId, Vec<(usize, LockMode)>)> = by_lock.into_iter().collect();
    locks.sort_unstable_by_key(|&(lock, _)| lock);
    for (lock, mut holders) in locks {
        holders.sort_unstable_by_key(|&(tx, _)| position[tx]);
        crate::schedule::for_each_consecutive_run_pair(
            &holders,
            |&(_, mode)| mode,
            |prev, next| {
                for &(tx_a, _) in prev {
                    for &(tx_b, _) in next {
                        if !reachability.can_reach(tx_a, tx_b) {
                            reasons.push(format!(
                                "data race: transactions {tx_a} and {tx_b} conflict on lock {lock} but are unordered in the published schedule"
                            ));
                            // One reason per lock is enough to reject.
                            return false;
                        }
                    }
                }
                true
            },
        );
    }

    reasons
}

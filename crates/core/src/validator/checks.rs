//! What every replay ([`super::replay`]) is judged by besides the replay
//! itself: the structural prologue, the verdict over receipts and
//! replayed lock traces, and the state-root reason `PendingChain::commit`
//! gives once the overlay is flattened.
//!
//! There is no race check over the graph. The graph is derived from the
//! published profiles, and that derivation orders every pair of
//! transactions whose profiles conflict on a lock (or is cyclic, and the
//! block malformed); every replayed trace must equal its profile. So two
//! transactions whose replays conflict are always ordered
//! (`tests/schedule_reduction.rs` holds the property over adversarial
//! profiles), and a profile that lies about the commit order reorders
//! conflicting transactions, which the receipts or the root catch.

use super::replay::Trace;
use crate::error::CoreError;
use cc_ledger::{Block, ScheduleMetadata, WellFormedBlock};
use cc_primitives::hash::Hash256;
use cc_vm::Receipt;

/// The structural prologue: the header's commitments must match the
/// body before anything is replayed. The one check of a received block's
/// commitments: the chain appends what it returns as it is.
pub(crate) fn well_formed(block: Block) -> Result<WellFormedBlock, CoreError> {
    WellFormedBlock::check(block)
        .map_err(|_| CoreError::rejected("block commitments do not match its body"))
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
/// * the replayed lock `traces` must equal the profiles of the block's
///   schedule ([`trace_mismatches`]),
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
    traces: &[Trace],
    replayed: &[Receipt],
) -> Result<(), CoreError> {
    let mut reasons = block
        .schedule
        .as_ref()
        .map_or_else(Vec::new, |schedule| trace_mismatches(schedule, traces));
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

/// Compares the lock traces a replay recorded (one [`Trace`] per
/// transaction, in block order) with the profiles the block publishes.
/// `HappensBeforeGraph::from_metadata` has already held the schedule to
/// one record per transaction, in block order, each naming its locks in
/// strictly increasing order, so record `i` is transaction `i`'s and the
/// two sorted lists compare entry by entry. Returns a reason per trace
/// that differs.
fn trace_mismatches(schedule: &ScheduleMetadata, traces: &[Trace]) -> Vec<String> {
    let records = schedule.profiles.iter().zip(traces).enumerate();
    records
        .filter(|(_, (record, trace))| {
            let published = record.profile.locks.iter().map(|e| (e.lock, e.mode));
            !published.eq(trace.iter().copied())
        })
        .map(|(index, _)| {
            format!("transaction {index}: replayed lock trace differs from the published profile")
        })
        .collect()
}

//! Block validation: one replay kernel ([`replay`]), and the serial
//! baseline and the deterministic fork-join validator as two of its cells.

pub(crate) mod checks;
mod parallel;
pub(crate) mod replay;
mod serial;

pub use parallel::ParallelValidator;
pub use serial::SerialValidator;

use crate::error::CoreError;
use crate::stats::ValidationReport;
use cc_ledger::Block;
use cc_vm::World;

/// Something that re-executes a block against the parent state and decides
/// whether to accept it.
///
/// Validation **mutates** the world: on success the world holds the
/// block's post-state (so the same world can then validate the next block
/// of a chain). On rejection the world contents are unspecified — a real
/// node discards that state and resynchronizes, and the tests follow the
/// same discipline.
pub trait Validator {
    /// Replays `block` on top of `world` and checks every commitment.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BlockRejected`] when the block is dishonest: the
    ///   recomputed state root, receipts or gas differ, a replayed
    ///   transaction's lock trace is inconsistent with the published
    ///   profile, or the published schedule hides a data race.
    /// * [`CoreError::MissingSchedule`] / [`CoreError::MalformedSchedule`]
    ///   when the schedule cannot be replayed at all.
    fn validate(&self, world: &World, block: &Block) -> Result<ValidationReport, CoreError>;
}

//! Block mining: the serial baseline, the speculative parallel miner and
//! the optimistic multi-version miner.

mod driver;
mod mvcc;
mod parallel;
mod serial;

pub use mvcc::MvccMiner;
pub use parallel::ParallelMiner;
pub use serial::SerialMiner;

use crate::error::CoreError;
use crate::stats::MinerStats;
use cc_ledger::{Block, Transaction};
use cc_primitives::hash::Hash256;
use cc_vm::World;

/// The result of mining one block on top of a given world state.
#[derive(Debug, Clone)]
pub struct MinedBlock {
    /// The assembled block (transactions, receipts, state root and — for
    /// the parallel miner — the published schedule).
    pub block: Block,
    /// Statistics about the mining run.
    pub stats: MinerStats,
}

impl MinedBlock {
    /// The block's state root.
    pub fn state_root(&self) -> Hash256 {
        self.block.header.state_root
    }
}

/// Something that can execute a list of transactions against a world and
/// assemble a block — either serially (the baseline all speedups in the
/// paper are measured against) or speculatively in parallel.
///
/// Mining **mutates** the world: after `mine` returns, the world holds the
/// block's post-state (which is also what the returned block's state root
/// commits to).
pub trait Miner {
    /// Executes `transactions` against `world` and assembles the block.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MiningFailed`] if a transaction cannot be
    /// committed even after exhausting its retry budget.
    fn mine(&self, world: &World, transactions: Vec<Transaction>) -> Result<MinedBlock, CoreError>;

    /// Mines on top of a specific parent block hash/number (convenience
    /// for chain construction; the default `mine` builds a block with a
    /// zero parent at height 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MiningFailed`] if a transaction cannot be
    /// committed even after exhausting its retry budget.
    fn mine_on(
        &self,
        world: &World,
        transactions: Vec<Transaction>,
        parent_hash: Hash256,
        number: u64,
    ) -> Result<MinedBlock, CoreError>;
}

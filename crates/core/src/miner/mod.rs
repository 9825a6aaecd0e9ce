//! Block mining: one driver ([`crate::Engine::mine_on`] calls it) runs a
//! block's transactions on the engine's pool with a strategy's attempt —
//! the pessimistic boosted one, or the optimistic multi-version one — and
//! assembles the block.

mod driver;
mod mvcc;
mod parallel;

pub(crate) use driver::mine_on;

use crate::stats::MinerStats;
use cc_ledger::Block;
use cc_primitives::hash::Hash256;

/// The result of mining one block on top of a given world state.
#[derive(Debug, Clone)]
pub struct MinedBlock {
    /// The assembled block (transactions, receipts, state root and the
    /// published schedule).
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
